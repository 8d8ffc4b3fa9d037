package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// onLinkAttempts builds a hook applying action to every delivery attempt
// (original send and all retransmissions) of the seq-th message on one
// link, making that message unrecoverable.
func onLinkAttempts(from, to, seq int, action FaultAction) Fault {
	return func(fc FaultContext) (FaultAction, float64) {
		if fc.From == from && fc.To == to && fc.Seq == seq {
			return action, 0
		}
		return FaultDeliver, 0
	}
}

// onFirstAttempts corrupts the first k delivery attempts of one message
// and lets later retransmissions through.
func onFirstAttempts(from, to, seq, k int, action FaultAction) Fault {
	return func(fc FaultContext) (FaultAction, float64) {
		if fc.From == from && fc.To == to && fc.Seq == seq && fc.Attempt < k {
			return action, 0
		}
		return FaultDeliver, 0
	}
}

func TestReliableRecoversCorruption(t *testing.T) {
	retx0 := mRetransmits.Value()
	payload := []byte("precious bytes")
	var got []byte
	var recvErr error
	_, err := Run(Config{
		Ranks:    2,
		Reliable: true,
		Fault:    onFirstAttempts(0, 1, 0, 1, FaultCorrupt),
	}, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, payload)
		}
		got, recvErr = r.Recv(0)
		return nil
	})
	if err != nil || recvErr != nil {
		t.Fatalf("run/recv failed: %v / %v", err, recvErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("recovered payload mismatch: %q", got)
	}
	if d := mRetransmits.Value() - retx0; d < 1 {
		t.Fatalf("no retransmission counted (delta %d)", d)
	}
}

func TestReliableRecoversDropViaGap(t *testing.T) {
	// The first message is dropped (original attempt only); the second
	// arrives and exposes the gap, triggering immediate recovery. Both
	// payloads must be delivered, in order.
	var got [2][]byte
	var errs [2]error
	_, err := Run(Config{
		Ranks:    2,
		Reliable: true,
		Fault:    onFirstAttempts(0, 1, 0, 1, FaultDrop),
	}, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("first")); err != nil {
				return err
			}
			return r.Send(1, []byte("second"))
		}
		got[0], errs[0] = r.Recv(0)
		got[1], errs[1] = r.Recv(0)
		return nil
	})
	if err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("run failed: %v / %v / %v", err, errs[0], errs[1])
	}
	if string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("out-of-order or wrong recovery: %q, %q", got[0], got[1])
	}
}

func TestReliableRecoversDropViaTimeout(t *testing.T) {
	// Only one message, dropped in flight: nothing ever exposes a gap, so
	// the wall-clock timeout drives the NACK.
	var got []byte
	var recvErr error
	_, err := Run(Config{
		Ranks:       2,
		Reliable:    true,
		RecvTimeout: 30 * time.Millisecond,
		Fault:       onFirstAttempts(0, 1, 0, 1, FaultDrop),
	}, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("vanished once")); err != nil {
				return err
			}
			_, err := r.Recv(1) // stay alive until the receiver is done
			return err
		}
		got, recvErr = r.Recv(0)
		if recvErr != nil {
			return recvErr
		}
		return r.Send(0, []byte("done"))
	})
	if err != nil || recvErr != nil {
		t.Fatalf("run/recv failed: %v / %v", err, recvErr)
	}
	if string(got) != "vanished once" {
		t.Fatalf("recovered payload mismatch: %q", got)
	}
}

func TestReliableDedupsDuplicates(t *testing.T) {
	dedup0 := mDedups.Value()
	var got [2][]byte
	var errs [2]error
	_, err := Run(Config{
		Ranks:    2,
		Reliable: true,
		Fault:    FaultOn(OnLink(0, 1, 0), FaultDuplicate, 0),
	}, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("once")); err != nil {
				return err
			}
			return r.Send(1, []byte("twice"))
		}
		got[0], errs[0] = r.Recv(0)
		got[1], errs[1] = r.Recv(0)
		return nil
	})
	if err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("run failed: %v / %v / %v", err, errs[0], errs[1])
	}
	if string(got[0]) != "once" || string(got[1]) != "twice" {
		t.Fatalf("dedup delivered wrong payloads: %q, %q", got[0], got[1])
	}
	if d := mDedups.Value() - dedup0; d < 1 {
		t.Fatalf("duplicate not counted as dedup (delta %d)", d)
	}
}

func TestReliableRetryBudgetExhaustedOnPersistentCorruption(t *testing.T) {
	var recvErr error
	_, err := Run(Config{
		Ranks:       2,
		Reliable:    true,
		RetryBudget: 3,
		Fault:       onLinkAttempts(0, 1, 0, FaultCorrupt),
	}, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("doomed")); err != nil {
				return err
			}
			_, err := r.Recv(1)
			return err
		}
		_, recvErr = r.Recv(0)
		if recvErr == nil {
			return r.Send(0, []byte("unexpected"))
		}
		return nil
	})
	if !errors.Is(recvErr, ErrRetryBudgetExhausted) {
		t.Fatalf("want ErrRetryBudgetExhausted, got recv=%v run=%v", recvErr, err)
	}
	if !errors.Is(recvErr, ErrMessageCorrupt) {
		t.Fatalf("exhaustion should wrap the root cause: %v", recvErr)
	}
}

func TestReliableRetryBudgetExhaustedOnPersistentDrop(t *testing.T) {
	var recvErr error
	done := make(chan struct{})
	_, err := Run(Config{
		Ranks:       2,
		Reliable:    true,
		RetryBudget: 2,
		RecvTimeout: 25 * time.Millisecond,
		Fault:       onLinkAttempts(0, 1, 0, FaultDrop),
	}, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("black hole")); err != nil {
				return err
			}
			<-done // stay alive so the receiver exercises the NACK path
			return nil
		}
		_, recvErr = r.Recv(0)
		close(done)
		return nil
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !errors.Is(recvErr, ErrRetryBudgetExhausted) {
		t.Fatalf("want ErrRetryBudgetExhausted, got %v", recvErr)
	}
}

func TestReliableRetransmitWindowEviction(t *testing.T) {
	// The first message is dropped permanently and four more pushes evict
	// it from a 2-entry window before the receiver starts: the NACK must
	// fail with ErrRetransmitGone, not hang or fabricate data.
	var recvErr error
	var wg sync.WaitGroup
	wg.Add(1) // receiver waits until all sends are recorded
	_, err := Run(Config{
		Ranks:       2,
		Reliable:    true,
		RetxWindow:  2,
		RetryBudget: 2,
		RecvTimeout: 25 * time.Millisecond,
		Fault:       onLinkAttempts(0, 1, 0, FaultDrop),
	}, func(r *Rank) error {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				if err := r.Send(1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			wg.Done()
			return nil
		}
		wg.Wait()
		_, recvErr = r.Recv(0)
		return nil
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !errors.Is(recvErr, ErrRetransmitGone) {
		t.Fatalf("want ErrRetransmitGone, got %v", recvErr)
	}
}

func TestReliableRecoveryChargesVirtualTime(t *testing.T) {
	// Two corrupt attempts before success: recovery must charge NACK
	// latency and at least one backoff interval to the receiver's MPI time.
	const backoff = time.Millisecond
	var mpi float64
	_, err := Run(Config{
		Ranks:        2,
		Reliable:     true,
		RetryBackoff: backoff,
		Fault:        onFirstAttempts(0, 1, 0, 2, FaultCorrupt),
	}, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, []byte("costly"))
		}
		if _, err := r.Recv(0); err != nil {
			return err
		}
		mpi = r.Breakdown()[CatMPI]
		return nil
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if mpi < backoff.Seconds() {
		t.Fatalf("recovery backoff not charged: MPI %g < %g", mpi, backoff.Seconds())
	}
}

func TestAdvanceEpochDiscardsStaleTraffic(t *testing.T) {
	// A message sent in epoch 0 must not be confused with epoch 1 traffic
	// after all ranks advance: the receiver silently discards it and
	// delivers the new epoch's payload.
	for _, reliable := range []bool{false, true} {
		var got []byte
		var recvErr error
		_, err := Run(Config{Ranks: 2, Reliable: reliable}, func(r *Rank) error {
			if r.ID == 0 {
				if err := r.Send(1, []byte("stale")); err != nil {
					return err
				}
				if err := r.Barrier(); err != nil {
					return err
				}
				r.AdvanceEpoch()
				return r.Send(1, []byte("fresh"))
			}
			if err := r.Barrier(); err != nil {
				return err
			}
			r.AdvanceEpoch()
			got, recvErr = r.Recv(0)
			return nil
		})
		if err != nil || recvErr != nil {
			t.Fatalf("reliable=%v: run/recv failed: %v / %v", reliable, err, recvErr)
		}
		if string(got) != "fresh" {
			t.Fatalf("reliable=%v: stale traffic delivered: %q", reliable, got)
		}
	}
}

func TestOutOfOrderRetainsLaterMessage(t *testing.T) {
	// Strict mode: a sequence gap errors, but the later message that
	// exposed it must be redelivered by the next Recv, not discarded.
	var first, second error
	var got []byte
	_, err := Run(Config{
		Ranks: 2,
		Fault: FaultOn(OnLink(0, 1, 0), FaultDrop, 0),
	}, func(r *Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, []byte("lost")); err != nil {
				return err
			}
			return r.Send(1, []byte("survivor"))
		}
		_, first = r.Recv(0)
		got, second = r.Recv(0)
		return nil
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !errors.Is(first, ErrMessageLost) {
		t.Fatalf("gap not detected: %v", first)
	}
	if second != nil || string(got) != "survivor" {
		t.Fatalf("later message not retained: err=%v payload=%q", second, got)
	}
}

func TestBarrierAbortsWhenPeerExits(t *testing.T) {
	// The last rank exits before reaching the barrier; the others must
	// abort with ErrPeerFailed instead of deadlocking — also on a world
	// whose deserter lies beyond the 64-rank dead-set bitmap.
	for _, n := range []int{3, 66} {
		barrierErrs := make([]error, n)
		deserter := errors.New("the last rank deserts")
		_, err := Run(Config{Ranks: n}, func(r *Rank) error {
			if r.ID == n-1 {
				return deserter
			}
			barrierErrs[r.ID] = r.Barrier()
			return barrierErrs[r.ID]
		})
		if !errors.Is(err, deserter) {
			t.Fatalf("%d ranks: root-cause error masked: %v", n, err)
		}
		for id := 0; id < n-1; id++ {
			if !errors.Is(barrierErrs[id], ErrPeerFailed) {
				t.Fatalf("%d ranks: rank %d barrier did not abort: %v", n, id, barrierErrs[id])
			}
		}
	}
}

func TestBarrierDeadlineWhenPeerStalls(t *testing.T) {
	// Rank 1 stalls (alive but never arriving); with RecvTimeout set, the
	// waiter's deadline must fire instead of waiting forever.
	var barrierErr error
	release := make(chan struct{})
	_, _ = Run(Config{
		Ranks:       2,
		RecvTimeout: 10 * time.Millisecond,
	}, func(r *Rank) error {
		if r.ID == 1 {
			<-release
			return nil
		}
		barrierErr = r.Barrier()
		close(release)
		return barrierErr
	})
	if !errors.Is(barrierErr, ErrRecvTimeout) {
		t.Fatalf("stalled barrier did not time out: %v", barrierErr)
	}
}

func TestAgreeMaxAgreesOnMaximum(t *testing.T) {
	const n = 4
	agreed := make([][]int, n)
	_, err := Run(Config{Ranks: n}, func(r *Rank) error {
		for round := 0; round < 3; round++ {
			v, err := r.AgreeMax(r.ID + round*10)
			if err != nil {
				return err
			}
			agreed[r.ID] = append(agreed[r.ID], v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for id := 0; id < n; id++ {
		for round := 0; round < 3; round++ {
			want := (n - 1) + round*10
			if agreed[id][round] != want {
				t.Fatalf("rank %d round %d agreed on %d, want %d", id, round, agreed[id][round], want)
			}
		}
	}
}
