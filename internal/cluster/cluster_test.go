package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Ranks: 0}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := Run(Config{Ranks: -1}, func(r *Rank) error { return nil }); err == nil {
		t.Fatal("negative ranks accepted")
	}
}

func TestSendRecvMovesData(t *testing.T) {
	res, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, []byte("hello"))
		}
		data, err := r.Recv(0)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no time charged for communication")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		if r.ID == 0 {
			buf := []byte{1, 2, 3}
			if err := r.Send(1, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not be visible to the receiver
			return nil
		}
		data, err := r.Recv(0)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("send did not copy payload: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetworkModelCharging(t *testing.T) {
	// 1 MB at 1 GB/s with 1 ms latency: arrival = 1 ms + 1 ms = 2 ms.
	cfg := Config{Ranks: 2, Latency: time.Millisecond, BandwidthBytes: 1e9}
	payload := make([]byte, 1_000_000)
	res, err := Run(cfg, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, payload)
		}
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.002
	if math.Abs(res.Time-want) > 1e-9 {
		t.Fatalf("collective time %g, want %g", res.Time, want)
	}
	if math.Abs(res.Breakdown[CatMPI]-want) > 1e-9 {
		t.Fatalf("MPI breakdown %g, want %g", res.Breakdown[CatMPI], want)
	}
}

func TestRecvAfterComputeOverlaps(t *testing.T) {
	// If the receiver is busy past the arrival time, Recv must not add
	// network time (communication fully overlapped).
	cfg := Config{Ranks: 2, Latency: time.Millisecond, BandwidthBytes: 1e9}
	res, err := Run(cfg, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, make([]byte, 1000))
		}
		r.Elapse(CatCPT, 1.0) // busy for a full virtual second
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown[CatMPI] != 0 {
		t.Fatalf("overlapped recv charged %g MPI seconds", res.Breakdown[CatMPI])
	}
	if math.Abs(res.Time-1.0) > 1e-9 {
		t.Fatalf("time %g, want 1.0", res.Time)
	}
}

func TestElapseAndBreakdown(t *testing.T) {
	res, err := Run(Config{Ranks: 3}, func(r *Rank) error {
		r.Elapse(CatCPR, 0.5)
		r.Elapse(CatDPR, 0.25)
		r.Elapse(CatCPR, -1) // ignored
		r.Elapse(CatCPR, math.NaN())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown[CatCPR] != 1.5 || res.Breakdown[CatDPR] != 0.75 {
		t.Fatalf("breakdown %v", res.Breakdown)
	}
	if res.Time != 0.75 || res.AvgTime() != 0.75 || res.MinTime() != 0.75 {
		t.Fatalf("times: %v %v %v", res.Time, res.AvgTime(), res.MinTime())
	}
	fr := res.BreakdownFractions()
	if math.Abs(fr[CatCPR]-2.0/3) > 1e-12 {
		t.Fatalf("fractions %v", fr)
	}
}

// Wall runs real work and charges none of it: virtual time moves only by
// Elapse, so a run's clock does not depend on how long its work took.
func TestWallChargesNothing(t *testing.T) {
	res, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		r.Wall(CatCPR, func() { time.Sleep(2 * time.Millisecond) })
		r.Elapse(CatCPR, 1e-3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 1e-3 || res.Breakdown[CatCPR] != 2e-3 {
		t.Fatalf("time %g, breakdown %v: want only the two Elapse charges", res.Time, res.Breakdown)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	res, err := Run(Config{Ranks: 4, Latency: time.Microsecond}, func(r *Rank) error {
		r.Elapse(CatCPT, float64(r.ID)*0.1)
		r.Barrier()
		if r.Now() < 0.3 {
			return fmt.Errorf("rank %d left barrier at %g", r.ID, r.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// all ranks leave at the same time
	for _, rt := range res.RankTimes {
		if math.Abs(rt-res.RankTimes[0]) > 1e-12 {
			t.Fatalf("ranks left barrier at different times: %v", res.RankTimes)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	_, err := Run(Config{Ranks: 3}, func(r *Rank) error {
		for i := 0; i < 10; i++ {
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeerValidation(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		if err := r.Send(5, nil); !errors.Is(err, ErrBadPeer) {
			return fmt.Errorf("send oob: %v", err)
		}
		if err := r.Send(r.ID, nil); !errors.Is(err, ErrBadPeer) {
			return fmt.Errorf("self send: %v", err)
		}
		if _, err := r.Recv(-1); !errors.Is(err, ErrBadPeer) {
			return fmt.Errorf("recv oob: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	want := errors.New("boom")
	_, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		if r.ID == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestRankPanicRecovered(t *testing.T) {
	_, err := Run(Config{Ranks: 1}, func(r *Rank) error {
		panic("kaboom")
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				if err := r.Send(1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 5; i++ {
			data, err := r.Recv(0)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order: %d", i, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A full ring pipeline: the virtual completion time of N-1 rounds must be
// close to (N-1)(α + m/β), the textbook ring bound, because sends overlap.
func TestRingPipelineTiming(t *testing.T) {
	const n = 8
	const m = 100_000
	cfg := Config{Ranks: n, Latency: 10 * time.Microsecond, BandwidthBytes: 1e9}
	res, err := Run(cfg, func(r *Rank) error {
		buf := make([]byte, m)
		next := (r.ID + 1) % n
		prev := (r.ID - 1 + n) % n
		for round := 0; round < n-1; round++ {
			got, err := r.SendRecv(next, buf, prev)
			if err != nil {
				return err
			}
			buf = got
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perRound := 10e-6 + float64(m)/1e9
	want := float64(n-1) * perRound
	if math.Abs(res.Time-want)/want > 0.01 {
		t.Fatalf("ring time %g, want ~%g", res.Time, want)
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	c, tr, err := NewTraced(Config{Ranks: 2, Latency: time.Millisecond, BandwidthBytes: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(r *Rank) error {
		r.Elapse(CatCPR, 0.01)
		if r.ID == 0 {
			return r.Send(1, make([]byte, 1000))
		}
		_, err := r.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) < 3 {
		t.Fatalf("expected >=3 events, got %d: %v", len(evs), evs)
	}
	var sawCPR, sawMPI bool
	for _, ev := range evs {
		if ev.Dur <= 0 {
			t.Fatalf("non-positive duration: %+v", ev)
		}
		switch ev.Category {
		case CatCPR:
			sawCPR = true
		case CatMPI:
			sawMPI = true
		}
	}
	if !sawCPR || !sawMPI {
		t.Fatalf("missing categories in %v", evs)
	}
	// events per rank must be non-overlapping and ordered
	lastEnd := map[int]float64{}
	for _, ev := range evs {
		if ev.Start+1e-12 < lastEnd[ev.Rank] {
			t.Fatalf("overlapping events on rank %d: %+v", ev.Rank, ev)
		}
		lastEnd[ev.Rank] = ev.Start + ev.Dur
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", decoded.DisplayTimeUnit)
	}
	var complete, meta, flows int
	for _, ev := range decoded.TraceEvents {
		switch ev["ph"] {
		case "X":
			// Virtual-time slices live on pid 0; the wall pid additionally
			// carries the flow-anchor slices of every send/recv.
			if ev["pid"] == float64(chromePidVirtual) {
				complete++
			}
		case "M":
			meta++
		case "s", "f":
			flows++
		}
	}
	if complete != len(evs) {
		t.Fatalf("chrome trace has %d virtual complete events, want %d", complete, len(evs))
	}
	if flows < 2 {
		t.Fatalf("chrome trace has %d flow events, want at least the send/recv pair", flows)
	}
	if meta == 0 {
		t.Fatal("chrome trace missing process_name metadata")
	}
}

// Wall must bridge the real work into the trace's wall-clock timeline, in
// parallel with the virtual-time events, and the virtual timeline must hold
// only what Elapse charged.
func TestTraceRecordsWallSpans(t *testing.T) {
	c, tr, err := NewTraced(Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(func(r *Rank) error {
		r.Wall(CatCPR, func() { time.Sleep(2 * time.Millisecond) })
		r.Elapse(CatCPR, 1e-6)
		r.Wall(CatHPR, func() { time.Sleep(time.Millisecond) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := tr.WallEvents()
	if len(wall) != 2 {
		t.Fatalf("wall events = %d, want 2: %v", len(wall), wall)
	}
	for _, ev := range wall {
		if ev.Dur < 0.5e-3 {
			t.Fatalf("wall span too short (%.2gs): %+v", ev.Dur, ev)
		}
		if ev.Start < 0 {
			t.Fatalf("wall span before epoch: %+v", ev)
		}
	}
	if evs := tr.Events(); len(evs) != 1 || evs[0].Category != CatCPR || evs[0].Dur != 1e-6 {
		t.Fatalf("virtual events %+v, want the one CPR Elapse", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	sawWallPid := false
	for _, ev := range decoded.TraceEvents {
		if pid, _ := ev["pid"].(float64); pid == 1 && ev["ph"] == "X" {
			sawWallPid = true
		}
	}
	if !sawWallPid {
		t.Fatal("chrome trace has no wall-clock (pid 1) events")
	}
}

func TestUntracedClusterRecordsNothing(t *testing.T) {
	_, err := Run(Config{Ranks: 1}, func(r *Rank) error {
		r.Elapse(CatCPT, 0.5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A rank that fails mid-collective must not deadlock its peers: their
// pending receives fail fast with ErrPeerFailed.
func TestPeerFailurePropagates(t *testing.T) {
	boom := errors.New("simulated rank crash")
	_, err := Run(Config{Ranks: 3}, func(r *Rank) error {
		if r.ID == 1 {
			return boom // dies before sending anything
		}
		// ranks 0 and 2 wait for messages from rank 1
		_, err := r.Recv(1)
		if !errors.Is(err, ErrPeerFailed) {
			return fmt.Errorf("rank %d: expected ErrPeerFailed, got %v", r.ID, err)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("crash not reported: %v", err)
	}
}

// Buffered messages sent before a rank exits must still be delivered.
func TestMessagesDrainAfterSenderExits(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(r *Rank) error {
		if r.ID == 0 {
			return r.Send(1, []byte{7}) // exits immediately after
		}
		got, err := r.Recv(0)
		if err != nil {
			return err
		}
		if got[0] != 7 {
			return fmt.Errorf("got %v", got)
		}
		// a second receive must now fail rather than hang
		if _, err := r.Recv(0); !errors.Is(err, ErrPeerFailed) {
			return fmt.Errorf("second recv: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A failure inside a real collective must surface as an error on every
// rank rather than a hang.
func TestCollectiveSurvivesPeerPanic(t *testing.T) {
	_, err := Run(Config{Ranks: 4}, func(r *Rank) error {
		if r.ID == 2 {
			panic("rank 2 exploded")
		}
		next, prev := (r.ID+1)%4, (r.ID+3)%4
		for round := 0; round < 3; round++ {
			if err := r.Send(next, []byte{byte(round)}); err != nil {
				return err
			}
			if _, err := r.Recv(prev); err != nil {
				return err // expected for rank 3 (recv from 2)
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}
