package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hzccl"
)

// The (alpha, beta) the virtual-time model and AlgoAuto are given: the
// values `hzccl-collective -transport` and the daemon use, so an auto
// pick here is the pick a daemon job of the same shape gets.
const (
	modelLatency   = 2 * time.Microsecond
	modelBandwidth = 0.4e9
	recvTimeout    = 10 * time.Second
)

// listenLoopback grabs n ephemeral loopback listeners and their
// addresses, the peer list of a mesh whose ranks all live in this
// process.
func listenLoopback(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("listen rank %d: %w", i, err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	return lns, peers, nil
}

// eachRank runs f(rank) on n goroutines and returns the first error by
// rank order.
func eachRank(n int, f func(rank int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mesh is n TCPTransports over loopback sockets, one per rank, all in
// this process. Collectives run on job sessions so one mesh serves the
// warm-up, the timed pass and the traced pass.
type mesh struct {
	trs []*hzccl.TCPTransport
	job uint32
}

func formMesh(n int) (*mesh, error) {
	lns, peers, err := listenLoopback(n)
	if err != nil {
		return nil, err
	}
	m := &mesh{trs: make([]*hzccl.TCPTransport, n)}
	err = eachRank(n, func(i int) error {
		tr, err := hzccl.NewTCPTransport(hzccl.TCPOptions{Rank: i, Peers: peers, Listener: lns[i], DialTimeout: 10 * time.Second})
		m.trs[i] = tr
		return err
	})
	if err != nil {
		m.close()
		return nil, fmt.Errorf("form mesh: %w", err)
	}
	return m, nil
}

func (m *mesh) close() {
	for _, tr := range m.trs {
		if tr != nil {
			tr.Close()
		}
	}
}

// run executes body once per rank, each rank in its own RunCluster on a
// fresh job session of its own transport — the in-process equivalent of
// n processes entering the same collective program.
func (m *mesh) run(cfg hzccl.ClusterConfig, body func(r *hzccl.Rank) error) ([]*hzccl.RunResult, error) {
	m.job++
	job := m.job
	n := len(m.trs)
	results := make([]*hzccl.RunResult, n)
	err := eachRank(n, func(i int) error {
		sess, err := m.trs[i].Session(job)
		if err != nil {
			return err
		}
		c := cfg
		c.Ranks, c.Transport = n, sess
		results[i], err = hzccl.RunCluster(c, body)
		return err
	})
	return results, err
}

func modelConfig(topo *hzccl.Topology) hzccl.ClusterConfig {
	return hzccl.ClusterConfig{Latency: modelLatency, BandwidthBytes: modelBandwidth, Topology: topo, RecvTimeout: recvTimeout}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest32 is the result fingerprint `hzccl-collective -transport` and
// the daemon print: crc32c over the little-endian float32 bits.
func digest32(v []float32) uint32 {
	var buf [4096]byte
	sum := uint32(0)
	for len(v) > 0 {
		n := len(v)
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		sum = crc32.Update(sum, castagnoli, buf[:4*n])
		v = v[n:]
	}
	return sum
}

func digestHex(v []float32) string { return fmt.Sprintf("%08x", digest32(v)) }

// tolerance is the reference-agreement bound of internal/conformance
// (CollectiveOracle), copied here so the benchmark judges outputs by the
// rule the repository's own oracle uses. README gives the derivation.
func tolerance(b hzccl.Backend, algo hzccl.Algorithm, ranks int, eb, maxIn float64) float64 {
	R := float64(ranks)
	plain := (R + 1) * R * (maxIn + 1e-300) * math.Pow(2, -23)
	if b == hzccl.BackendMPI {
		return plain
	}
	extra := 0.0
	switch algo {
	case hzccl.AlgoRecursiveDoubling, hzccl.AlgoRabenseifner:
		extra = 2 * (2*math.Ceil(math.Log2(R+1)) + 4) * eb
	case hzccl.AlgoHierarchical:
		extra = 2 * 8 * eb
	}
	return 2*R*eb + extra + plain
}

// errOverTol is max |got − want| ÷ tol.
func errOverTol(got []float32, want []float64, tol float64) float64 {
	worst := 0.0
	for i, g := range got {
		if d := math.Abs(float64(g) - want[i]); d > worst {
			worst = d
		}
	}
	return worst / tol
}

func maxAbs(v []float32) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(float64(x)); a > m {
			m = a
		}
	}
	return m
}

// procState is what must return to its pre-workload level once every
// transport and daemon is closed.
type procState struct{ goroutines, fds int }

func readProcState() procState {
	st := procState{goroutines: runtime.NumGoroutine()}
	if ents, err := os.ReadDir("/proc/self/fd"); err == nil {
		st.fds = len(ents)
	}
	return st
}

// leaked waits briefly for goroutines and descriptors to drain back to
// base and describes what is still above it, or returns "".
func leaked(base procState) string {
	var now procState
	for wait := time.Millisecond; wait < 2*time.Second; wait *= 2 {
		now = readProcState()
		if now.goroutines <= base.goroutines && now.fds <= base.fds {
			return ""
		}
		time.Sleep(wait)
	}
	return fmt.Sprintf("leak after close: goroutines %d→%d, fds %d→%d", base.goroutines, now.goroutines, base.fds, now.fds)
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
