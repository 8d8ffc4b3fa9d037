package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"hzccl/internal/cluster"
	"hzccl/internal/floatbytes"
)

// Price replays op ("allreduce" or "reduce_scatter") under flavor f and
// fixed algorithm a on world ranks grouped as topo (nil: one node), each
// holding elems float32 values, and returns the latest rank's clock, as
// RunResult.Seconds reports it. The replay runs the real schedule over the
// real partials on a private in-process machine: the codec primitives code
// nothing (compressed payloads are raw/ratio-byte stand-ins) but charge
// rawBytes/rate as a run does, and a message arrives by the
// fabric's own rule, cluster.Arrival. It touches no telemetry, flight
// recorder, trace, bufpool or caller clock. Every vector, scratch buffer
// and payload of every rank is a slice of one zero arena that nothing
// writes, so a replay holds about one rank's input however many ranks it
// prices.
func Price(op string, f Flavor, a Algorithm, world int, topo *cluster.Topology, elems int, rates Rates, ratio, alpha, beta float64) (float64, error) {
	if world < 1 || elems < 0 || !a.Valid() || a == AlgoAuto {
		return 0, fmt.Errorf("core: cannot price %s/%v on %d ranks of %d values", op, a, world, elems)
	}
	if err := topo.Validate(world); err != nil {
		return 0, err
	}
	// 4·elems bytes hold the largest raw payload, 8 more per rank a frame's
	// headers; ratio ≥ 1 keeps every stand-in inside that.
	arena, _ := arenas.Get().([]float32)
	if len(arena) < elems+2*world+1 {
		arena = make([]float32, elems+2*world+1)
	}
	defer arenas.Put(arena)
	net := &replay{
		ratio: ratio, alpha: alpha, beta: beta, arena: arena, raw: floatbytes.Wire(arena),
		links: map[[2]int]chan replayMsg{}, done: make(chan struct{}),
	}
	c := New(Options{Rates: &rates})
	data := net.floats(elems) // every rank's input
	clocks, errs := make([]float64, world), make([]error, world)
	var wg sync.WaitGroup
	for id := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rk := &replayRank{net: net, id: id}
			defer func() {
				if p := recover(); p != nil {
					errs[id] = fmt.Errorf("core: replay rank %d panicked: %v", id, p)
				}
				if errs[id] != nil {
					net.once.Do(func() { close(net.done) }) // no peer waits for it
				}
				clocks[id] = rk.now
			}()
			g := comm{r: rk, replay: net, id: id, size: world}
			if op == "reduce_scatter" {
				_, _, errs[id] = c.reduceScatter(g, topo, f, a, data)
			} else {
				_, _, errs[id] = c.allreduce(g, topo, f, a, data)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return slices.Max(clocks), nil
}

// arenas hands the last replay's arena to the next: nothing writes one, so
// it is still zero, and the four replays of a pick allocate one.
var arenas sync.Pool

var errReplayAborted = errors.New("core: replay aborted by a failed rank")

// replay is one pricing run's fabric and memory: a buffered channel per
// link, as the in-process cluster has, and the zero arena every rank's
// buffers are cut from. comm's scratch helpers hand out arena slices and
// its write helpers skip the write, so the arena stays zero and payloads
// travel by reference.
type replay struct {
	ratio, alpha, beta float64
	arena              []float32
	raw                []byte // the arena's bytes
	mu                 sync.Mutex
	links              map[[2]int]chan replayMsg
	done               chan struct{}
	once               sync.Once
}

type replayMsg struct {
	data   []byte
	sentAt float64
}

// floats and bytes cut n values or bytes from the arena (capped, so an
// append cannot reach past them), or allocate what it cannot hold.
func (net *replay) floats(n int) []float32 {
	if n <= len(net.arena) {
		return net.arena[:n:n]
	}
	return make([]float32, n)
}

func (net *replay) bytes(n int) []byte {
	if n <= len(net.raw) {
		return net.raw[:n:n]
	}
	return make([]byte, n)
}

// payload is the stand-in for the container of rawBytes raw bytes.
func (net *replay) payload(rawBytes int) []byte {
	return net.bytes(int(math.Ceil(float64(rawBytes) / net.ratio)))
}

func (net *replay) link(from, to int) chan replayMsg {
	net.mu.Lock()
	defer net.mu.Unlock()
	ch, ok := net.links[[2]int{from, to}]
	if !ok {
		ch = make(chan replayMsg, cluster.LinkDepth)
		net.links[[2]int{from, to}] = ch
	}
	return ch
}

// replayRank is one rank of a replay, the rank its comm runs on.
type replayRank struct {
	net *replay
	id  int
	now float64
}

// Send is eager, as cluster.Rank.Send is: the sender's clock stays put.
func (r *replayRank) Send(to int, data []byte) error {
	select {
	case r.net.link(r.id, to) <- replayMsg{data, r.now}:
		return nil
	case <-r.net.done:
		return errReplayAborted
	}
}

func (r *replayRank) Recv(from int) ([]byte, error) {
	select {
	case m := <-r.net.link(from, r.id):
		r.now = max(r.now, cluster.Arrival(m.sentAt, r.net.alpha, r.net.beta, len(m.data)))
		return m.data, nil
	case <-r.net.done:
		return nil, errReplayAborted
	}
}

func (r *replayRank) Elapse(_ cluster.Category, seconds float64) { r.now += max(seconds, 0) }
