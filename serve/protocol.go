// Package serve turns the collective runtime into a long-lived service:
// one hzccl-serve process per rank owns a TCP mesh handshaked exactly
// once, and clients submit collective jobs to rank 0 over a small
// JSON-lines protocol. Each job runs on its own transport session (a
// private sequence/epoch/consensus space multiplexed over the shared
// connections), so many jobs — including concurrent ones — execute
// without re-forming the mesh and without cross-delivering traffic.
//
// The package has four faces:
//
//   - Daemon (Start): the per-rank server. Rank 0 is the scheduler and
//     client front door; every other rank is a worker driven by job
//     control frames on the mesh itself. A job is one kStart from rank
//     0 to each worker, carrying the spec — the worker opens the job's
//     session and runs it at once — and one kDone report back.
//   - Client (Dial): the thin submission API clients and the
//     hzccl-collective -submit mode use.
//   - Run: one job, on one rank of a mesh or on every rank in process.
//   - The wire types below, shared by the daemon and its clients.
//
// Run is the one definition of a job: the daemon runs every job through
// it, and so does `hzccl-collective` on its own fabrics, so a daemon
// job's per-rank digests are bit-identical to a standalone run of the
// same spec — the property scripts/tcp_smoke.sh verifies.
package serve

import "errors"

// ErrQueueFull is returned by Client.Submit (and carried as code
// "queue_full" on the wire) when the daemon's bounded submission queue
// has no room. It is backpressure, not failure: the job was never
// admitted, and retrying later is safe.
var ErrQueueFull = errors.New("serve: job queue full")

// Client-protocol operation names (request.Op).
const (
	opPing   = "ping"
	opSubmit = "submit"
	opJobs   = "jobs"
)

// Error codes carried in response.Code.
const (
	codeQueueFull = "queue_full"
	codeBadSpec   = "bad_spec"
	codeFailed    = "failed"
)

// Job states reported by JobStatus.State.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobSpec describes one collective job, the only description of one:
// Run runs it, on the daemon's mesh or standalone. The zero value of
// every field selects Run's default.
type JobSpec struct {
	// Op is the collective: "allreduce" (default) or "reduce_scatter".
	Op string `json:"op,omitempty"`
	// Backend is "mpi", "ccoll" or "hzccl" (default).
	Backend string `json:"backend,omitempty"`
	// Algorithm is "ring" (default), "rd", "rabenseifner",
	// "hierarchical" or "auto".
	Algorithm string `json:"algorithm,omitempty"`
	// Topology groups ranks into nodes ("2x2" or "3,5"); empty = flat.
	Topology string `json:"topology,omitempty"`
	// MessageBytes is the per-rank input size (default 256 KiB).
	MessageBytes int `json:"message_bytes,omitempty"`
	// RelBound is the relative error bound (default 1e-4).
	RelBound float64 `json:"rel_bound,omitempty"`
	// Dataset and Offset select the synthetic input field every rank
	// loads (default "SimSet1" at offset 0). The ranks of a job in one
	// process share one generation of it and one pass over it for the
	// range RelBound scales into the absolute error bound.
	Dataset string `json:"dataset,omitempty"`
	Offset  int    `json:"offset,omitempty"`
	// KillRank, when non-nil, names the rank whose job body crashes
	// mid-collective as an elastic-membership exercise: the survivors
	// evict it and finish on the shrunken world. Any rank of the world may
	// be the victim, rank 0 too. KillStep is the program-order send step
	// of the crash.
	KillRank *int `json:"kill_rank,omitempty"`
	KillStep int  `json:"kill_step,omitempty"`
}

// JobResult is what a successful Submit returns: the job's identity and
// the per-rank outcome. Digest keys are decimal rank numbers, values
// the 8-hex-digit crc32c fingerprint of that rank's reduced vector —
// the digest Run returns and `hzccl-collective` prints.
type JobResult struct {
	ID      uint32            `json:"id"`
	Digests map[string]string `json:"digests"`
	// VirtualSeconds is the modeled collective time, WallSeconds the real
	// elapsed time, both of rank 0 (of the lowest surviving rank when
	// rank 0 was the victim of a kill).
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	// Evicted lists ranks removed by a membership shrink; Killed lists
	// ranks whose body died to an injected kill (a subset of Evicted in
	// a healthy run).
	Evicted []int `json:"evicted,omitempty"`
	Killed  []int `json:"killed,omitempty"`
}

// JobStatus is one entry of the daemon's job registry (the /jobs obs
// endpoint and the "jobs" client request).
type JobStatus struct {
	ID      uint32            `json:"id"`
	State   string            `json:"state"`
	Op      string            `json:"op"`
	Backend string            `json:"backend"`
	Bytes   int               `json:"bytes"`
	Digests map[string]string `json:"digests,omitempty"`
	Evicted []int             `json:"evicted,omitempty"`
	Err     string            `json:"error,omitempty"`
}

// request/response are the JSON-lines client protocol. One request per
// line; submit responses arrive when the job finishes, so a connection
// observes its own submissions in completion order.
type request struct {
	Op   string   `json:"op"`
	Spec *JobSpec `json:"spec,omitempty"`
}

type response struct {
	OK     bool        `json:"ok"`
	Error  string      `json:"error,omitempty"`
	Code   string      `json:"code,omitempty"`
	Result *JobResult  `json:"result,omitempty"`
	Jobs   []JobStatus `json:"jobs,omitempty"`
	World  int         `json:"world,omitempty"`
}

// Mesh job-frame kinds (the transport reserves kind 0 for its internal
// end-of-session broadcast).
const (
	kStart byte = 1 // scheduler → worker: spec JSON; open the session and run
	kDone  byte = 2 // worker → scheduler: rankReport JSON
)

// rankReport is one rank's kDone payload.
type rankReport struct {
	Rank    int     `json:"rank"`
	Digest  string  `json:"digest,omitempty"`
	Virtual float64 `json:"virtual"`
	Wall    float64 `json:"wall"`
	Evicted []int   `json:"evicted,omitempty"`
	Killed  bool    `json:"killed,omitempty"`
	Err     string  `json:"error,omitempty"`
}
